import collections
import hashlib
import math
import pickle
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxlab import transform
from proxlab.core import Point2, ProxSet, WeightPair
from proxlab.erowl import ErowlParams, erowl
from proxlab.rowl import rowl_envelope_2d, rowl_penalty
from proxlab.scalar_ops import SQRT2, FirmParams, firm, l0_envelope, l0_norm
from proxlab.transform import (
    Axis,
    BoxTooSmallError,
    GridSpec,
    MonotoneGraph1D,
    SampledFunction,
    brute_force_prox,
    check_lipschitz,
    check_monotone,
    convert_1d,
    default_prox_box,
    jacobian_symmetry_defect,
    legendre_conjugate_grid,
    verify_inclusion,
    weakly_convex_envelope_grid,
)

W02 = WeightPair(0.0, 2.0)


# ---------------------------------------------------------------- grids


def test_axis_validation_and_points():
    ax = Axis(-1.0, 1.0, 0.5)
    assert ax.count == 5
    assert np.allclose(ax.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        Axis(0.0, 1.0, 0.3)  # span not a whole number of steps
    with pytest.raises(ValueError):
        Axis(1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="finite and integral"):
        Axis(0.0, 1e10, 1e-300)  # too many steps to count
    with pytest.raises(ValueError, match="finite and integral"):
        Axis(-1e308, 1e308, 1.0)  # the span itself overflows
    with pytest.raises(ValueError, match="more points than numpy can index"):
        Axis(0.0, 3.0, 1e-300)  # 3e300 + 1 points: points() could not be built
    for bounds in ((0.0, math.inf, 1.0), (math.nan, 1.0, 0.5), (0.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match="bounds and step must be finite"):
            Axis(*bounds)


@pytest.mark.parametrize("lo, hi, step", [(0.0, 1e-300, 1.0), (0.0, 1e-10, 1.0), (1.0, 1.0 + 2.0 ** -52, 1.0)])
def test_axis_refuses_a_span_shorter_than_one_step(lo, hi, step):
    # (hi - lo)/step passed the integrality test as 0 steps: count 1, and hi no grid point.
    with pytest.raises(ValueError, match="shorter than one step"):
        Axis(lo, hi, step)


EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, -1.0, 1.0, 3.0, 1e308]
edge = st.sampled_from(EDGES) | st.floats()
finite_edge = st.sampled_from([v for v in EDGES if math.isfinite(v)]) | st.floats(allow_nan=False, allow_infinity=False)


@given(edge, edge, edge)
@settings(max_examples=300)
@example(-sys.float_info.max, 0.0, 1916217563983001.0)  # its last point overflowed to inf
@example(0.0, 3.0, 1e-300)  # 3e300 + 1 points: more than numpy can index
@example(-sys.float_info.max, 0.0, 5.590906352488902e+291)  # 3.2e16 + 1 points, the last one inf
def test_a_grid_line_is_refused_or_runs_between_finite_ends(lo, hi, step):
    try:
        (ax,) = GridSpec.line(lo, hi, step).axes
    except ValueError:
        return
    last = ax.lo + ax.step * (ax.count - 1)
    assert ax.count >= 2 and ax.lo < ax.hi and math.isfinite(last), (ax, last)
    assert ax.count <= np.iinfo(np.intp).max // 8, ax  # points() is an array numpy can size


@given(st.tuples(finite_edge, finite_edge), edge, edge)
@settings(max_examples=300)
@example((0.0, 0.0), 1e308, 1.0)  # OverflowError: math.ceil of an overflowed step count
@example((0.0, 0.0), 1.0, 5e-324)
@example((1e308, 0.0), 8e307, 1.0)  # the upper end overflowed with a RuntimeWarning
def test_a_prox_box_is_refused_or_holds_its_point(x, reach, step):
    try:
        box = default_prox_box(x, reach, step)
    except ValueError:
        return
    for ax, c in zip(box.axes, x):
        assert ax.lo <= c <= ax.hi and math.isfinite(ax.lo + ax.step * (ax.count - 1)), (ax, c)


def test_gridspec_shapes():
    line = GridSpec.line(-2.0, 2.0, 0.5)
    assert line.dims == 1 and line.shape == (9,)
    sq = GridSpec.square(0.0, 1.0, 0.25)
    assert sq.dims == 2 and sq.shape == (5, 5)
    assert sq.mesh().shape == (5, 5, 2)
    box = GridSpec((Axis(0.0, 1.0, 0.5), Axis(0.0, 2.0, 1.0)))
    assert box.shape == (3, 3)
    assert box.max_step == 1.0
    ax = Axis(0.0, 1.0, 0.5)
    for axes in ((), (ax, ax, ax)):
        with pytest.raises(ValueError, match="1 or 2 axes"):
            GridSpec(axes)


def test_gridspec_refuses_a_box_whose_mesh_numpy_cannot_index():
    # mesh() holds n0 * n1 * 2 float64s; each axis alone is one numpy can index.
    # Nothing is allocated: the refusal comes before any array is built.
    limit = np.iinfo(np.intp).max // 8
    with pytest.raises(ValueError, match="more points than numpy can index"):
        GridSpec.square(0.0, 3.0, 1e-9)  # 3e9 + 1 points a side
    pair = Axis(0.0, 1.0, 1.0)
    wide, wider = Axis(0.0, 1.0, 2.0 ** -57), Axis(0.0, 1.0, 2.0 ** -58)
    assert wide.count * 2 * 2 <= limit < wider.count * 2 * 2
    assert GridSpec((wide, pair)).shape == (2 ** 57 + 1, 2)
    assert GridSpec((pair, wide)).shape == (2, 2 ** 57 + 1)
    for axes in ((wider, pair), (pair, wider)):
        with pytest.raises(ValueError, match="more points than numpy can index"):
            GridSpec(axes)
    assert GridSpec((wider,)).shape == (2 ** 58 + 1,)  # a line holds one float64 per point


def _reference_mesh(grid: GridSpec) -> np.ndarray:
    """:meth:`GridSpec.mesh` as it was written, through ``meshgrid`` and ``stack``."""
    if grid.dims == 1:
        return grid.axes[0].points()
    g0, g1 = np.meshgrid(grid.axes[0].points(), grid.axes[1].points(), indexing="ij")
    return np.stack([g0, g1], axis=-1)


@pytest.mark.parametrize("grid", [
    GridSpec.square(-6.0, 6.0, 0.05),
    GridSpec((Axis(-5.0, 4.0, 0.05), Axis(-4.5, 6.5, 0.05))),
    GridSpec((Axis(-4.0, 4.0, 0.1), Axis(-3.0, 5.0, 0.04))),
    GridSpec((Axis(-0.0, 0.3, 0.1), Axis(2.0 ** 1000, 2.0 ** 1000 + 3 * 2.0 ** 990, 2.0 ** 990))),
    GridSpec.line(-5.0, 5.0, 0.01),
], ids=["square", "uneven", "steps", "one-by-far", "line"])
def test_mesh_matches_its_meshgrid_reference_bit_for_bit(grid):
    got, want = grid.mesh(), _reference_mesh(grid)
    assert got.shape == want.shape == grid.shape + ((2,) if grid.dims == 2 else ())
    assert got.flags.c_contiguous and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def _value_at(f: SampledFunction, x: float) -> float:
    """Linear interpolation of samples on a line at a point inside the line."""
    ax = f.grid.axes[0]
    if not ax.lo <= x <= ax.hi:
        raise ValueError(f"{x} outside grid [{ax.lo}, {ax.hi}]")
    return float(np.interp(x, ax.points(), f.values))


def test_sampled_function_interpolates():
    f = SampledFunction.sample(GridSpec.line(-1.0, 1.0, 0.1), lambda x: 0.5 * x * x)
    # linear interpolation between the two nearest samples
    assert _value_at(f, 0.05) == pytest.approx(0.0025, abs=1e-15)
    with pytest.raises(ValueError):
        _value_at(f, 1.5)
    with pytest.raises(ValueError):
        SampledFunction(GridSpec.line(0.0, 1.0, 0.5), np.zeros(5))
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="> -inf and not NaN"):
            SampledFunction(GridSpec.line(0.0, 1.0, 0.5), np.array([0.0, bad, 0.0]))


# ---------------------------------------------------------- conjugation


def test_half_square_is_self_conjugate():
    f = SampledFunction.sample(GridSpec.line(-5.0, 5.0, 0.01), lambda x: 0.5 * x * x)
    dual = GridSpec.line(-2.0, 2.0, 0.01)
    conj = legendre_conjugate_grid(f, dual)
    us = dual.axes[0].points()
    assert np.max(np.abs(conj.values - 0.5 * us * us)) <= 1e-12


def test_abs_conjugate_vanishes_inside_unit_ball():
    f = SampledFunction.sample(GridSpec.line(-5.0, 5.0, 0.01), np.abs)
    conj = legendre_conjugate_grid(f, GridSpec.line(-0.9, 0.9, 0.01))
    assert np.max(np.abs(conj.values)) <= 1e-15


def test_conjugation_reverses_pointwise_order():
    grid = GridSpec.line(-4.0, 4.0, 0.02)
    dual = GridSpec.line(-3.0, 3.0, 0.02)
    small = legendre_conjugate_grid(SampledFunction.sample(grid, np.abs), dual)
    large = legendre_conjugate_grid(
        SampledFunction.sample(grid, lambda x: 2.0 * np.abs(x)), dual
    )
    assert np.all(small.values >= large.values - 1e-12)


def test_double_conjugation_is_a_minorant():
    grid = GridSpec.line(-5.0, 5.0, 0.01)
    f = SampledFunction.sample(grid, l0_norm)
    conj = legendre_conjugate_grid(f, GridSpec.line(-3.0, 3.0, 0.01))
    biconj = legendre_conjugate_grid(conj, grid)
    assert np.all(biconj.values <= f.values + 1e-9)
    # flat count penalty convexifies to a cone through the origin
    assert _value_at(biconj, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_envelope_grid_matches_scalar_closed_form():
    grid = GridSpec.line(-6.0, 6.0, 0.01)
    env = weakly_convex_envelope_grid(SampledFunction.sample(grid, l0_norm))
    xs = grid.axes[0].points()
    inner = np.abs(xs) <= 3.0
    assert np.max(np.abs(env.values[inner] - l0_envelope(xs[inner]))) <= 5e-3
    # the grid transform reproduces the knee value 1 at sqrt(2)
    assert _value_at(env, SQRT2) == pytest.approx(1.0, abs=5e-3)


def test_envelope_grid_fixes_convex_functions():
    grid = GridSpec.line(-4.0, 4.0, 0.01)
    f = SampledFunction.sample(grid, lambda x: 0.5 * x * x)
    env = weakly_convex_envelope_grid(f)
    xs = grid.axes[0].points()
    inner = np.abs(xs) <= 1.5
    assert np.max(np.abs(env.values[inner] - f.values[inner])) <= 1e-4


def test_envelope_grid_matches_planar_closed_form():
    w = WeightPair(0.5, 1.5)
    grid = GridSpec.square(-6.0, 6.0, 0.05)
    env = weakly_convex_envelope_grid(
        SampledFunction.sample(grid, lambda z: rowl_penalty(z, w.as_array()))
    )
    mesh = grid.mesh()
    inner = np.max(np.abs(mesh), axis=-1) <= 4.0
    ref = rowl_envelope_2d(mesh, w)
    assert np.max(np.abs(env.values[inner] - ref[inner])) <= 5e-2


def _conjugate_reference(xs, vals, us):
    # One unchunked score block per call: the definition of _conjugate_lines.
    return np.max(xs[None, None, :] * us[None, :, None] - vals[:, None, :], axis=2)


def _same_bits(a, b) -> bool:
    # Stricter than np.array_equal: -0.0 and 0.0 differ.
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_conjugate_line_matches_unchunked_reference_bit_for_bit():
    # 1201 samples leave 54 dual points per chunk; 1201 is not a multiple of 54.
    grid = GridSpec.line(-6.0, 6.0, 0.01)
    f = SampledFunction.sample(grid, lambda x: l0_norm(x) + 0.5 * x * x)
    dual = GridSpec.line(-7.0, 7.0, 0.01)
    got = legendre_conjugate_grid(f, dual)
    ref = _conjugate_reference(grid.axes[0].points(), f.values[None, :], dual.axes[0].points())[0]
    assert _same_bits(got.values, ref)


def test_conjugate_box_matches_unchunked_reference_bit_for_bit():
    # 300 rows of 220 samples exceed the 65,536-element chunk budget, so the
    # first pass scores one dual column per chunk; the second pass takes 12
    # columns per chunk, and 29 dual points are not a multiple of 12.  The
    # samples are +inf off a disc, and whole rows of the box lie off it.
    x0 = Axis(-3.0, 2.98, 0.02)
    x1 = Axis(-2.19, 2.19, 0.02)
    assert (x0.count, x1.count) == (300, 220)
    grid = GridSpec((x0, x1))

    def fn(z):
        r2 = np.sum(z * z, axis=-1)
        return np.where(r2 <= 4.0, rowl_penalty(z, W02.as_array()) + 0.5 * r2, np.inf)

    f = SampledFunction.sample(grid, fn)
    assert np.any(np.isinf(f.values)) and np.all(np.isinf(f.values[0]))
    u0, u1 = Axis(-2.8, 2.8, 0.2), Axis(-1.6, 1.6, 0.2)
    assert (u0.count, u1.count) == (29, 17)
    got = legendre_conjugate_grid(f, GridSpec((u0, u1)))
    inner = _conjugate_reference(x1.points(), f.values, u1.points())
    ref = _conjugate_reference(x0.points(), (-inner).T, u0.points()).T
    assert _same_bits(got.values, ref)


def _case(xs, rows, us, fortran=False):
    vals = np.array(rows, dtype=float).reshape(-1, len(xs))
    # The second pass of a box transform gets its rows as a transposed view.
    if fortran:
        vals = np.asfortranarray(vals)
    return np.asarray(xs, dtype=float), vals, np.asarray(us, dtype=float)


@st.composite
def _conjugate_cases(draw):
    """Sorted eighth-step grids, repeats allowed, and rows built to tie.

    Every product and difference is exact, so maxima tie often, signed zeros
    included.  A row is a parabola with a few runs set to one value or +inf:
    plateaus, kinks where the argmax jumps, and holes in the domain.
    """
    eighths = st.integers(-64, 64)
    n, m = draw(st.integers(1, 90)), draw(st.integers(1, 90))
    xs = np.sort(draw(st.lists(eighths, min_size=n, max_size=n))) / 8.0
    us = np.sort(draw(st.lists(eighths, min_size=m, max_size=m))) / 8.0
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        curve = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        row = curve * xs * xs + draw(st.sampled_from([0.0, 1.0, -0.5]))
        for _ in range(draw(st.integers(0, 4))):
            i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
            row[i:j + 1] = draw(st.sampled_from([0.0, -1.0, 0.5, 2.0, np.inf]))
        rows.append(row)
    return _case(xs, rows, us, draw(st.booleans()))


_X81 = np.arange(-40, 41) / 8.0
_U61 = np.arange(-30, 31) / 8.0
_XZ = np.arange(-30, 31) / 10.0        # holds 0.0 exactly
_UZ = np.arange(-25, 26) / 10.0        # holds 0.0 at index 25, between two anchors
_PLATEAU = np.where(np.abs(_XZ) <= 1.0, 0.0, 1.0 + _XZ * _XZ)
_XS_WIDE = np.arange(-60, 61) / 20.0
_I40 = np.arange(40)
_X241 = np.arange(-120, 121) / 20.0


def _plateau(xs, half):
    """1.0 on ``|x| <= half``, a steep parabola off it."""
    return np.where(np.abs(xs) <= half, 1.0, 1.0 + 50.0 * xs * xs)


# Cases for the window sizes, with the sizes each reaches.  The argmax jumps
# across a plateau between two anchors, so the gap's span is the plateau: 33
# of 81 points take a window of 40 and 61 of 81 one of 80; 51 of 61 take the
# whole row; in 241 points, 121 take a window of 160 and 201 the whole row.
_SPAN_CASES = {
    "40-of-81": (_case(_X81, [_plateau(_X81, 2.0)], _U61), {20, 40}),
    "80-of-81": (_case(_X81, [_plateau(_X81, 3.75), _plateau(_X81, 2.0)], _U61, fortran=True), {20, 40, 80}),
    "row-of-61": (_case(_XZ, [_plateau(_XZ, 2.5)], _UZ), {20, 61}),
    "row-of-241": (_case(_X241, [_plateau(_X241, 5.0), _plateau(_X241, 3.0), _X241 ** 2], _U61), {20, 40, 160, 241}),
    # The argmax moves 1.25 and 2.5 points per dual: 20 to 40 points per gap.
    "parabolas": (_case(_X241, [_X241 ** 2, 0.5 * _X241 ** 2 + 1.0], _U61), {20, 40, 80}),
}


@settings(max_examples=300, deadline=None)
@given(case=_conjugate_cases())
# +inf entries, and a row that is +inf everywhere.
@example(case=_case(_X81, [np.where(np.abs(_X81) <= 3.0, 0.5 * _X81 ** 2, np.inf),
                           np.full(81, np.inf), np.abs(_X81)], _U61))
# Affine rows, and rows constant on an interval: near-ties everywhere.
@example(case=_case(_X81, [0.5 * _X81 + 1.0, np.where(np.abs(_X81) <= 2.0, 1.0, _X81 ** 2)], _U61))
# Kinked rows: the l0 penalty plus a parabola, whose argmax jumps at u = +-sqrt(2).
@example(case=_case(_XS_WIDE, [0.5 * _XS_WIDE ** 2 + (_XS_WIDE != 0.0), np.abs(_XS_WIDE) ** 3],
                    _XS_WIDE, fortran=True))
# u = 0.0 over a zero-valued interval: the maximum is reached by -0.0 (x < 0) and +0.0.
@example(case=_case(_XZ, [_PLATEAU], _UZ))
@example(case=_case(_XZ, [np.roll(_PLATEAU, k) for k in range(-5, 6)], _UZ, fortran=True))
# The argmax jumps across a plateau at u = 0, so the rows are wider than a
# window; -0.0 fills x < 0 and +0.0 the rest.  Transposed rows pick the sign
# in another order than a block of whole contiguous rows does.
@example(case=_case(_XZ, [np.where((_XZ >= -2.5) & (_XZ <= 0.1), 0.0, 9.0)] * 3, _UZ, fortran=True))
# A dual grid wider than the primal one.
@example(case=_case(_X81[::2], [_X81[::2] ** 2], np.arange(-60, 61) / 8.0))
# A single row, and rows shorter than a window.
@example(case=_case(_X81, [_X81 ** 2], _U61))
@example(case=_case(_X81[:15], [_X81[:15] ** 2, -_X81[:15]], _U61))
# S near 1e300 takes the windows; near the float range it takes the brute force.
@example(case=_case(_X81 * 1e149, [1e300 * (_X81 / 5.0) ** 2], _U61 * 1e150))
@example(case=_case(_X81 * 1e153, [1e306 * (_X81 / 5.0) ** 2], _U61 * 1e153))
# Two points one ulp apart whose scores trade places by rounding between two
# anchors; without a margin the window would leave out the winner.
@example(case=_case(np.repeat([1.1140366758243674, 1.1140366758243676], [30, 10]),
                    [np.where(_I40 == 5, 0.0, np.where(_I40 == 35, 1.7053025658242404e-13, 1e6))],
                    [514.9385446563921] + [518.0975786235591] * 15 + [525.5262061156135]))
# S itself overflows, though no score does: the brute force takes it.
@example(case=_case(np.arange(41) * 2.5e152, [np.where(np.arange(41) % 7 == 0, 1.5e308, 0.0)],
                    np.arange(61) * (1e154 / 60)))
# Grids out of order, and NaN or -inf samples: the window proof does not apply.
@example(case=_case(_X81[::-1], [_X81 ** 2], _U61))
@example(case=_case(_X81, [_X81 ** 2], _U61[::-1]))
@example(case=_case(_X81, [np.where(_X81 == 1.0, np.nan, _X81 ** 2),
                           np.where(_X81 == -1.0, -np.inf, _X81 ** 2)], _U61))
# Repeated primal points with different values.
@example(case=_case(np.repeat(_X81, 2), [np.repeat(_X81 ** 2, 2) + np.tile([0.0, 0.25], 81)], _U61))
# A (row, gap) span in each window size, the whole row included.
@example(case=_SPAN_CASES["40-of-81"][0])
@example(case=_SPAN_CASES["80-of-81"][0])
@example(case=_SPAN_CASES["row-of-61"][0])
@example(case=_SPAN_CASES["row-of-241"][0])
def test_conjugate_lines_matches_reference_bit_for_bit(case):
    xs, vals, us = case
    assert _same_bits(transform._conjugate_lines(xs, vals, us), _conjugate_reference(xs, vals, us))


@pytest.mark.parametrize("name", sorted(_SPAN_CASES))
def test_conjugate_lines_scores_each_pair_in_the_narrowest_window_that_holds_its_span(name, monkeypatch):
    """Each (row, gap) pair is scored once, in the narrowest of 20 * 2**k
    points or the whole row that holds its span ``[L_a, R_c]``, starting at
    ``min(L_a, n - size)``."""
    (xs, vals, us), sizes = _SPAN_CASES[name]
    b, n = vals.shape
    stride = transform._ANCHOR_STRIDE
    anchors = np.minimum(np.arange(0, us.size + stride - 1, stride), us.size - 1)
    margin = transform._window_margin(xs, vals, us)
    _, first, last = transform._anchor_spans(xs, vals, us[anchors], margin)
    want = {}
    for r in range(b):
        for a in range(anchors.size - 1):
            size = transform._WINDOW
            while size < n and last[r, a + 1] - first[r, a] + 1 > size:
                size *= 2
            size = min(size, n)
            want[r, a] = (min(first[r, a], n - size), size)

    got = collections.Counter()
    seen = {}
    real = transform._window_maxima

    def spy(xs, vals, us, rows, cols, js):
        for p, r in enumerate(rows.tolist()):
            key = (r, (int(js[0, p]) - 1) // stride)
            got[key] += 1
            seen[key] = (int(cols[0, p]), cols.shape[0])
        return real(xs, vals, us, rows, cols, js)

    monkeypatch.setattr(transform, "_window_maxima", spy)
    out = transform._conjugate_lines(xs, vals, us)
    assert _same_bits(out, _conjugate_reference(xs, vals, us))
    assert set(got.values()) == {1} and seen == want
    assert {size for _, size in want.values()} == sizes


def _traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, after a first call has warmed any lazy import."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grid, penalty, bound_mb", [
    # The oracle's envelope grid: 241 x 241 samples, whose own arrays make up
    # most of the 3.8 MB that the brute-force kernel peaked at.
    (GridSpec.square(-6.0, 6.0, 0.05), lambda z: rowl_penalty(z, W02.as_array()), 4.0),
    # 1201 samples on a line; the brute-force kernel peaked at 1.67 MB.
    (GridSpec.line(-6.0, 6.0, 0.01), l0_norm, 1.75),
], ids=["rowl-box", "l0-line"])
def test_envelope_grid_peak_memory_stays_near_one_score_block(grid, penalty, bound_mb):
    f = SampledFunction.sample(grid, penalty)
    assert _traced_peak(lambda: weakly_convex_envelope_grid(f)) <= bound_mb * 1e6


def test_conjugate_rejects_dimension_mismatch_and_empty_domain():
    f = SampledFunction.sample(GridSpec.line(-1.0, 1.0, 0.5), np.abs)
    with pytest.raises(ValueError):
        legendre_conjugate_grid(f, GridSpec.square(-1.0, 1.0, 0.5))
    empty = SampledFunction(GridSpec.line(-1.0, 1.0, 0.5), np.full(5, np.inf))
    with pytest.raises(ValueError):
        legendre_conjugate_grid(empty, GridSpec.line(-1.0, 1.0, 0.5))


# ------------------------------------------------------ grid-search prox


def test_brute_force_prox_scalar_count_penalty():
    box = GridSpec.line(-4.0, 4.0, 0.01)
    lone = brute_force_prox(l0_norm, 2.0, 1.0, box)
    assert lone.kind == "single"
    assert lone.points()[0] == pytest.approx(2.0, abs=0.02)

    split = brute_force_prox(l0_norm, SQRT2, 1.0, box)
    assert split.kind == "pair"
    assert sorted(split.points()) == pytest.approx([0.0, SQRT2], abs=0.02)


def test_brute_force_prox_planar_scaled_envelope():
    # halving the envelope turns its prox into the relaxed single-valued map
    box = default_prox_box((2.0, 2.0), 2.0, 0.05)
    got = brute_force_prox(
        lambda z: 0.5 * rowl_envelope_2d(z, W02), (2.0, 2.0), 1.0, box
    )
    assert got.kind == "single"
    p = got.points()[0]
    assert (p.x1, p.x2) == pytest.approx((1.5, 1.5), abs=0.1)


def test_brute_force_prox_box_too_small():
    with pytest.raises(BoxTooSmallError):
        brute_force_prox(np.zeros_like, 10.0, 1.0, GridSpec.line(-2.0, 2.0, 0.1))
    with pytest.raises(BoxTooSmallError):
        brute_force_prox(
            lambda y: np.zeros(y.shape[:-1]),
            (10.0, 10.0),
            1.0,
            GridSpec.square(-2.0, 2.0, 0.1),
        )
    with pytest.raises(ValueError):
        brute_force_prox(np.zeros_like, 0.0, 0.0, GridSpec.line(-2.0, 2.0, 0.1))


def test_brute_force_prox_scalar_reports_a_nan_objective():
    box = GridSpec.line(-4.0, 4.0, 0.01)

    def nan_at_7(y):
        out = l0_norm(y)
        out[7] = np.nan
        return out

    with pytest.raises(ValueError, match="objective has a NaN cell"):
        brute_force_prox(nan_at_7, 1.0, 1.0, box)
    with pytest.raises(ValueError, match="objective has a NaN cell"):
        brute_force_prox(l0_norm, math.nan, 1.0, box)


def test_brute_force_prox_scalar_refuses_three_minimizer_clusters():
    box = GridSpec.line(-3.0, 3.0, 0.5)

    def three_wells(y):
        # The objective is exactly 0 at -1, 0 and 1, and 1 elsewhere.
        return np.where(np.isin(y, (-1.0, 0.0, 1.0)), 0.0, 1.0) - y * y / 2.0

    with pytest.raises(ValueError, match="found 3 optimizer clusters"):
        brute_force_prox(three_wells, 0.0, 1.0, box)


class _Counting:
    """A penalty that counts its evaluations and keeps the meshes it was given."""

    def __init__(self, fn):
        self.fn, self.calls, self.meshes = fn, 0, []

    def __call__(self, z):
        self.calls += 1
        self.meshes.append(z)
        return self.fn(z)


class _Unhashable(_Counting):
    def __eq__(self, other):
        return self is other


@pytest.mark.parametrize(
    "penalty, envelope, box, points",
    [
        (
            lambda z: rowl_penalty(z, W02.as_array()),
            lambda z: rowl_envelope_2d(z, W02),
            GridSpec.square(-6.0, 6.0, 0.05),
            [(2.0, 2.0), (-1.5, 1.5)] + list(np.random.default_rng(4).uniform(-4.0, 4.0, (18, 2))),
        ),
        (
            l0_norm,
            l0_envelope,
            GridSpec.line(-5.0, 5.0, 0.01),
            [SQRT2, -SQRT2] + list(np.random.default_rng(4).uniform(-4.0, 4.0, 18)),
        ),
    ],
    ids=["planar", "line"],
)
def test_verify_inclusion_samples_each_callable_once_per_box(penalty, envelope, box, points):
    pen, env = _Counting(penalty), _Counting(envelope)
    reports = [verify_inclusion(pen, env, x, box) for x in points]
    assert (pen.calls, env.calls) == (1, 1)
    assert not pen.meshes[0].flags.writeable

    ax = box.axes[0]
    wider = GridSpec((Axis(ax.lo, ax.hi + ax.step, ax.step),) * box.dims)
    brute_force_prox(pen, points[0], 1.0, wider)
    assert pen.calls == 2

    for x, report in zip(points, reports):
        # fresh lambdas miss the cache: every query evaluates them again
        fresh = verify_inclusion(lambda z: penalty(z), lambda z: envelope(z), x, box)
        assert pickle.dumps(report) == pickle.dumps(fresh)


def test_sampled_arrays_are_read_only():
    box = GridSpec.square(-1.0, 1.0, 0.5)
    owned = np.zeros(box.shape)
    mesh, values, _ = transform._sampled(lambda z: owned, box)
    assert not mesh.flags.writeable and not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 1.0
    with pytest.raises(ValueError):
        mesh[0, 0, 0] = 1.0
    assert owned.flags.writeable  # the penalty's own array is left writable


def test_unhashable_penalty_is_evaluated_directly():
    box = GridSpec.line(-4.0, 4.0, 0.01)
    pen = _Unhashable(l0_norm)
    with pytest.raises(TypeError):
        hash(pen)
    for _ in range(2):
        got = brute_force_prox(pen, SQRT2, 1.0, box)
        fresh = brute_force_prox(lambda z: l0_norm(z), SQRT2, 1.0, box)
        assert pickle.dumps(got) == pickle.dumps(fresh)
    assert pen.calls == 2


def test_penalties_evaluate_on_a_read_only_mesh():
    planar = (lambda z: rowl_penalty(z, W02.as_array()), lambda z: rowl_envelope_2d(z, W02))
    for box, fns in (
        (GridSpec.square(-3.0, 3.0, 0.25), planar),
        (GridSpec.line(-3.0, 3.0, 0.25), (l0_norm, l0_envelope)),
    ):
        frozen = box.mesh()
        frozen.setflags(write=False)
        for fn in fns:
            assert np.array_equal(fn(frozen), fn(box.mesh()))


def _bfs_components(mask: np.ndarray) -> list[np.ndarray]:
    """8-connected components by breadth-first search, seeded in row-major order."""
    n0, n1 = mask.shape
    label = np.zeros(mask.shape, dtype=int)
    out = []
    for seed in zip(*np.nonzero(mask)):
        if label[seed]:
            continue
        k = len(out) + 1
        label[seed] = k
        queue = collections.deque([seed])
        while queue:
            i, j = queue.popleft()
            for a in range(max(i - 1, 0), min(i + 2, n0)):
                for b in range(max(j - 1, 0), min(j + 2, n1)):
                    if mask[a, b] and not label[a, b]:
                        label[a, b] = k
                        queue.append((a, b))
        out.append(np.flatnonzero(label.reshape(-1) == k))
    return out


def _random_masks(count: int = 300):
    rng = np.random.default_rng(3)
    for _ in range(count):
        yield rng.random(tuple(rng.integers(1, 20, size=2))) < rng.uniform(0.05, 0.7)


def test_clusters_match_breadth_first_numbering():
    for mask in _random_masks():
        got, ref = transform._clusters(mask), _bfs_components(mask)
        assert len(got) == len(ref)
        for flat, want in zip(got, ref):
            assert np.array_equal(flat, want)


def test_clusters_match_scipy_label_numbering():
    ndimage = pytest.importorskip("scipy.ndimage")
    from proxlab.transform import _clusters

    for mask in _random_masks():
        labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
        got = _clusters(mask)
        assert len(got) == n
        for k, flat in enumerate(got, start=1):
            assert np.array_equal(flat, np.flatnonzero(labels.reshape(-1) == k))


def _reference_prox_2d(penalty, x, gamma, box):
    """The planar grid prox as first written: the objective on the full
    ``(n0, n1, 2)`` mesh, and the box edges found through ``argwhere``."""
    mesh = box.mesh()
    pen = np.asarray(penalty(mesh), dtype=float)
    p = Point2.of(x)
    obj = pen + ((p.x1 - mesh[..., 0]) ** 2 + (p.x2 - mesh[..., 1]) ** 2) / (2.0 * gamma)
    if not np.any(np.isfinite(obj)):
        raise ValueError("objective is +inf everywhere on the box")
    step = box.max_step
    mask = obj <= np.min(obj) + (1e-9 + step * step / gamma)
    idx = np.argwhere(mask)
    if (
        np.any(idx[:, 0] == 0)
        or np.any(idx[:, 0] == box.shape[0] - 1)
        or np.any(idx[:, 1] == 0)
        or np.any(idx[:, 1] == box.shape[1] - 1)
    ):
        raise BoxTooSmallError("minimizer cluster touches the search-box boundary")
    clusters = _bfs_components(mask)
    flat_mesh = mesh.reshape(-1, 2)
    flat_obj = obj.reshape(-1)

    def cluster_best(flat):
        return flat_mesh[flat[int(np.argmin(flat_obj[flat]))]]

    if len(clusters) == 1:
        [flat] = clusters
        cells = np.column_stack(np.unravel_index(flat, mask.shape))
        if max(cells.max(axis=0) - cells.min(axis=0)) <= 3:
            return ProxSet.single(cluster_best(flat))
        pts = flat_mesh[flat]
        dev = pts - pts.mean(axis=0)
        evecs = np.linalg.eigh(dev.T @ dev)[1]
        if np.max(np.abs(dev @ evecs[:, 0])) > 1.5 * step:
            raise ValueError("optimizer cluster spans a 2-D blob, not a segment")
        proj = dev @ evecs[:, 1]
        return ProxSet.segment(pts[int(np.argmin(proj))], pts[int(np.argmax(proj))])
    if len(clusters) == 2:
        return ProxSet.pair(*(cluster_best(flat) for flat in clusters))
    raise ValueError(f"found {len(clusters)} optimizer clusters; expected at most 2")


def _outcome(fn, *args):
    """The pickled result of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return pickle.dumps(fn(*args))
    except Exception as exc:  # the exception is the outcome being compared
        return type(exc), str(exc)


def _with_inf_off_disc(fn, radius):
    def penalty(z):
        return np.where(np.sum(z * z, axis=-1) <= radius * radius, fn(z), np.inf)
    return penalty


def _with_nan_at(fn, cell):
    def penalty(z):
        out = np.array(fn(z), dtype=float)
        out[cell] = np.nan
        return out
    return penalty


def _three_wells(z):
    # Wells at (±1, 0) and (0, 1), equally far from the origin: three clusters.
    out = np.zeros(z.shape[:-1])
    for c in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)):
        out[np.all(np.abs(z - c) < 1e-9, axis=-1)] = -10.0
    return out


def _flat_disc(z):
    # Cancels the distance term on the unit disc around the origin: a 2-D blob.
    r2 = np.sum(z * z, axis=-1)
    return np.where(r2 <= 1.0, -0.5 * r2, 0.0)


_ROWL = lambda z: rowl_penalty(z, W02.as_array())
_ENVELOPE = lambda z: rowl_envelope_2d(z, W02)
_PROX_BOXES = [
    GridSpec.square(-6.0, 6.0, 0.05),
    GridSpec((Axis(-5.0, 4.0, 0.05), Axis(-4.5, 6.5, 0.05))),
    GridSpec((Axis(-4.0, 4.0, 0.1), Axis(-3.0, 5.0, 0.04))),
]
_PROX_PENALTIES = {
    "rowl": _ROWL,
    "envelope": _ENVELOPE,
    "relaxed": lambda z: 0.5 * _ENVELOPE(z),
    "inf_off_disc": _with_inf_off_disc(_ROWL, 3.0),
    "nan_sample": _with_nan_at(_ENVELOPE, (3, 5)),
    "all_inf": lambda z: np.full(z.shape[:-1], np.inf),
    "three_wells": _three_wells,
    "flat_disc": _flat_disc,
}


@pytest.mark.parametrize("gamma", [0.5, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("name", sorted(_PROX_PENALTIES))
def test_planar_grid_prox_matches_full_mesh_reference_bit_for_bit(name, gamma):
    penalty = _PROX_PENALTIES[name]
    rng = np.random.default_rng(11)
    points = [(0.0, 0.0), (1.5, 1.5), (-1.5, 1.5), (2.0, -2.0)] + list(rng.uniform(-4.0, 4.0, (6, 2)))
    for box in _PROX_BOXES:
        for x in points:
            got = _outcome(brute_force_prox, penalty, x, gamma, box)
            if name == "nan_sample":  # the reference finds 0 clusters; the prox names the NaN
                assert got == (ValueError, "objective has a NaN cell on the box"), (box, x)
            else:
                assert got == _outcome(_reference_prox_2d, penalty, x, gamma, box), (name, box, x)


@dataclass(frozen=True)
class _WedgePenalty:
    """``offset + slope * (w1*max(|u|, |v|) + w2*min(|u|, |v|))`` of ``(u, v) = z - centre``.

    A positive ``quantum`` rounds the values to its multiples, which makes
    ties; the penalty is +inf past ``radius`` from the centre in the l1
    norm, and NaN at the mesh cell ``nan_cell``.
    """

    centre: tuple[float, float]
    weights: tuple[float, float]
    slope: float
    offset: float
    quantum: float = 0.0
    radius: float = math.inf
    nan_cell: tuple[int, int] | None = None

    def __call__(self, z):
        u = np.abs(z - np.asarray(self.centre))
        big, small = np.maximum(u[..., 0], u[..., 1]), np.minimum(u[..., 0], u[..., 1])
        out = self.offset + self.slope * (self.weights[0] * big + self.weights[1] * small)
        if self.quantum:
            out = np.round(out / self.quantum) * self.quantum
        out = np.where(u[..., 0] + u[..., 1] <= self.radius, out, np.inf)
        if self.nan_cell is not None:
            out[self.nan_cell] = np.nan
        return out


def _uneven_box(lo0, n0, step0, lo1, n1, step1):
    return GridSpec((Axis(lo0, lo0 + n0 * step0, step0), Axis(lo1, lo1 + n1 * step1, step1)))


@st.composite
def _planar_prox_cases(draw):
    axes = []
    for _ in range(2):
        step = draw(st.sampled_from([0.05, 0.1, 0.125, 0.2, 0.25, 0.3]))
        n = draw(st.integers(4, 60))
        axes.append((draw(st.integers(-n, 0)) * step, n, step))
    box = _uneven_box(*axes[0], *axes[1])
    coords = []
    for (lo, n, step) in axes:
        hi = lo + n * step
        coords.append(draw(st.one_of(
            st.integers(0, n).map(lambda k, lo=lo, step=step: lo + k * step),  # a grid line, edges included
            st.floats(lo, hi),
            st.floats(lo - 2.0, lo) | st.floats(hi, hi + 2.0),  # outside the box
        )))
    centre = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    weights = (draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0)))
    penalty = _WedgePenalty(
        centre, weights, slope=draw(st.floats(-0.5, 3.0)), offset=draw(st.floats(-5.0, 5.0)),
        quantum=draw(st.sampled_from([0.0, 0.05, 0.25, 1.0])),
        radius=draw(st.sampled_from([math.inf, 0.5, 1.0, 2.0, 4.0])),
    )
    gamma = draw(st.sampled_from([0.5, 0.7, 1.0, 2.0]) | st.floats(0.2, 3.0))
    return penalty, tuple(coords), gamma, box


_PULL_IN = _WedgePenalty((0.0, 0.0), (1.0, 1.0), slope=3.0, offset=-1.0)
_EDGE_BOX = _uneven_box(-2.0, 40, 0.1, -1.5, 16, 0.25)


@settings(max_examples=200, deadline=None)
@given(case=_planar_prox_cases())
# x lies left of the box, so the cell nearest it is on the first row; the
# penalty pulls the minimum inside.
@example(case=(_PULL_IN, (-3.0, 0.3), 1.0, _EDGE_BOX))
# One NaN sample in the corner cell, far from the rows and columns that
# could reach the minimum near (1, 1).
@example(case=(_WedgePenalty((1.0, 1.0), (0.5, 1.0), slope=2.0, offset=0.0, nan_cell=(0, 0)),
               (1.0, 1.0), 1.0, GridSpec.square(-3.0, 3.0, 0.05)))
# A valley along x1 through x: the one cluster spans 17 rows of one column,
# a segment, where a span test on the columns alone would give a point.
@example(case=(_WedgePenalty((-5.0, 0.6), (0.0, 1.0), slope=1.0, offset=0.0), (0.5, 0.6), 1.0,
               _uneven_box(-1.0, 40, 0.05, -1.5, 10, 0.3)))
def test_planar_grid_prox_matches_the_reference_on_drawn_cases(case):
    penalty, x, gamma, box = case
    got = _outcome(brute_force_prox, penalty, x, gamma, box)
    if penalty.nan_cell is not None:  # the reference finds 0 clusters; the prox names the NaN
        assert got == (ValueError, "objective has a NaN cell on the box"), case
    else:
        assert got == _outcome(_reference_prox_2d, penalty, x, gamma, box), case


def test_a_penalty_of_one_number_is_that_number_on_every_cell():
    for x in [(0.3, 0.2), (1.5, -0.75), (9.0, 0.0)]:
        for box in _PROX_BOXES:
            got = _outcome(brute_force_prox, lambda z: -1.5, x, 0.7, box)
            assert got == _outcome(_reference_prox_2d, lambda z: -1.5, x, 0.7, box), (x, box)
    line = GridSpec.line(-2.0, 2.0, 0.1)
    assert brute_force_prox(lambda z: 2.0, 0.3, 1.0, line) == brute_force_prox(np.zeros_like, 0.3, 1.0, line)


@pytest.mark.parametrize(
    "x, edge",
    [((-10.0, 0.3), (0, slice(None))), ((10.0, 0.3), (-1, slice(None))),
     ((0.3, -10.0), (slice(None), 0)), ((0.3, 10.0), (slice(None), -1))],
    ids=["first-row", "last-row", "first-column", "last-column"],
)
def test_each_box_edge_alone_is_too_small(x, edge):
    box = GridSpec((Axis(-2.0, 2.0, 0.1), Axis(-1.5, 2.5, 0.1)))
    zero = lambda z: np.zeros(z.shape[:-1])
    mesh = box.mesh()
    obj = np.sum((np.asarray(x) - mesh) ** 2, axis=-1) / 2.0
    mask = obj <= np.min(obj) + 0.01 + 1e-9
    touched = [e for e in ((0, slice(None)), (-1, slice(None)), (slice(None), 0), (slice(None), -1))
               if mask[e].any()]
    assert touched == [edge]
    for prox in (brute_force_prox, _reference_prox_2d):
        with pytest.raises(BoxTooSmallError, match="touches the search-box boundary"):
            prox(zero, x, 1.0, box)


def _words(result) -> list[str]:
    """A prox set as its kind and the ``float.hex`` of each coordinate."""
    return [result.kind] + [float(v).hex() for v in np.ravel(result.points())]


def _grid_oracle_digest() -> str:
    """sha256 over the outputs of a seeded set of grid-oracle queries.

    Planar and line :func:`verify_inclusion` queries give their two prox sets,
    distance and verdict; R_delta cases give a coarse and a fine
    :func:`brute_force_prox` set and the fine set's distance to ``erowl``.
    """
    rng = np.random.default_rng(9)
    words: list[str] = []
    planar_box = GridSpec.square(-6.0, 6.0, 0.05)
    planar = list(rng.uniform(-4.0, 4.0, (20, 2))) + [(1.5, 1.5), (-1.5, 1.5), (-0.5, -0.5)]
    reports = [verify_inclusion(_ROWL, _ENVELOPE, x, planar_box) for x in planar]
    line = list(rng.uniform(-4.0, 4.0, 20)) + [SQRT2, -SQRT2]
    reports += [verify_inclusion(l0_norm, l0_envelope, x, GridSpec.line(-5.0, 5.0, 0.01))
                for x in line]
    for r in reports:
        words += _words(r.prox_penalty) + _words(r.prox_envelope)
        words += [r.max_distance.hex(), float(r.included).hex()]
    for k in range(12):
        delta = (0.5, 1.0, 5.0)[k % 3]
        w2 = rng.uniform(0.2, 4.0)
        w = WeightPair(rng.uniform(0.0, w2), w2)
        x = rng.uniform(-6.0, 6.0, size=2)
        penalty = lambda z: rowl_envelope_2d(z, w) / (delta + 1.0)
        coarse = brute_force_prox(penalty, x, 1.0, default_prox_box(x, w2, 0.05))
        c = coarse.points()[0]
        fine_box = GridSpec(tuple(Axis(ci - 0.08, ci - 0.08 + 16 * 0.01, 0.01) for ci in c))
        fine = brute_force_prox(penalty, x, 1.0, fine_box)
        y = erowl(x, ErowlParams(w, delta))
        words += _words(coarse) + _words(fine) + [fine.distance(Point2(y[0], y[1])).hex()]
    return hashlib.sha256(" ".join(words).encode()).hexdigest()


# Pinned from the grid oracle as it stood before its objective was summed per
# axis; any change to a point, a distance or a verdict moves it.
GRID_ORACLE_SHA256 = "65dc6760806b9d8360a06e4f9f60a4c23f18c1eb5e30b36e988dea66b20e921c"


def test_grid_oracle_outputs_match_their_golden_digest():
    assert _grid_oracle_digest() == GRID_ORACLE_SHA256


def test_default_prox_box_is_symmetric_about_the_query():
    box = default_prox_box(-3.0, 2.0, 0.05)
    ax = box.axes[0]
    assert ax.lo == pytest.approx(-6.0)
    assert ax.hi == pytest.approx(0.0)
    assert ax.count == 121
    with pytest.raises(ValueError):
        default_prox_box(0.0, -1.0, 0.05)
    with pytest.raises(ValueError, match="reach"):
        default_prox_box(0.0, math.inf, 0.1)
    with pytest.raises(ValueError, match="reach"):
        default_prox_box(0.0, math.nan, 0.1)
    for step in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="step"):
            default_prox_box(0.0, 1.0, step)


# ------------------------------------------------------- graph inversion


def test_hard_graph_structure():
    g = MonotoneGraph1D.hard_graph(SQRT2)
    assert g.x_range == (-1e6, 1e6)
    brk = g.breakpoints()
    assert [b[0] for b in brk] == pytest.approx([-SQRT2, SQRT2])
    lo_iv = brk[0][1]
    assert lo_iv.points() == pytest.approx((-SQRT2, 0.0))
    at_jump = g.image_at(SQRT2)
    assert at_jump.kind == "interval"
    assert at_jump.points() == pytest.approx((0.0, SQRT2))
    assert g.image_at(0.3).points() == (0.0,)
    with pytest.raises(ValueError):
        g.image_at(2e6)
    with pytest.raises(ValueError):
        MonotoneGraph1D.hard_graph(-1.0)
    with pytest.raises(ValueError, match="0 < threshold < 1e6"):
        MonotoneGraph1D.hard_graph(1e6)  # no room left for the identity tails


def test_image_at_interpolates_a_long_tail_piece_from_its_near_end():
    # A tail truncated at -1e6, as in hard_graph, but with slope 1/3: read from
    # the far end, q - x0 cancels and the value is off by up to 4e-11.
    tail = MonotoneGraph1D([(-1e6, -1e6 / 3), (-1.0, -1.0 / 3)])
    for q in (-1.5, -2.0, -3.0, -7.0):
        assert tail.image_at(q).points() == pytest.approx((q / 3,), abs=1e-15)


def test_image_at_an_end_vertical_piece_is_its_whole_interval():
    # Inside a graph a vertical piece shares its ends with its neighbours;
    # at either end of the graph it alone gives one end of the interval.
    closing = MonotoneGraph1D([(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)])
    assert closing.image_at(1.0).points() == (0.0, 2.0)
    opening = MonotoneGraph1D([(0.0, -1.0), (0.0, 0.0), (1.0, 0.5)])
    assert opening.image_at(0.0).points() == (-1.0, 0.0)
    assert [(b, iv.points()) for b, iv in opening.breakpoints()] == [(0.0, (-1.0, 0.0))]


@pytest.mark.parametrize(
    ("vertices", "message"),
    [
        ([(0.0, 0.0)], "at least two vertices"),
        ([(0.0, 0.0), (1.0, math.inf)], "finite"),
        ([(math.nan, 0.0), (1.0, 1.0)], "finite"),
        ([(0.0, 0.0), (-1.0, 1.0)], "nondecreasing"),
        ([(0.0, 0.0), (1.0, -1.0)], "nondecreasing"),
        ([(0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 2.0)], "repeated"),
    ],
)
def test_graph_rejects_each_bad_vertex_list(vertices, message):
    with pytest.raises(ValueError, match=message):
        MonotoneGraph1D(vertices)


def test_graph_inversion_reproduces_two_threshold_shrinkage():
    g = MonotoneGraph1D.hard_graph(SQRT2)
    delta = 0.5
    params = FirmParams(SQRT2 / (delta + 1.0), SQRT2)
    got = convert_1d(g, delta, 1.2)
    assert got == pytest.approx(0.7715728752538094, abs=1e-9)
    assert got == pytest.approx(firm(1.2, params), abs=1e-9)
    assert convert_1d(g, delta, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert convert_1d(g, delta, 2.0) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("delta", [1e-3, 0.5, 1.0, 2.0, 50.0])
def test_graph_inversion_identity_on_a_sweep(delta):
    g = MonotoneGraph1D.hard_graph(SQRT2)
    params = FirmParams(SQRT2 / (delta + 1.0), SQRT2)
    for q in np.linspace(-4.0, 4.0, 161):
        assert convert_1d(g, delta, q) == pytest.approx(firm(q, params), abs=1e-12)


def _conversion_digest() -> str:
    """sha256 over a seeded sweep of hard graphs: :func:`convert_1d` and the graph's reads.

    Each threshold's graph gives its breakpoints, and at every query its
    ``image_at`` and, for each delta, the relaxed value.  Queries are seeded
    uniform points plus, with both signs, the threshold ``t``, its relaxed
    image ``t / (delta + 1)`` for each delta, ``0.0`` and ``1e5``.
    """
    rng = np.random.default_rng(17)
    deltas = [1e-3, 1e-2, 0.1, 0.5, 1.0, 10.0, 1e3]
    words: list[str] = []
    for t in (0.3, 1.0, SQRT2, 7.5):
        g = MonotoneGraph1D.hard_graph(t)
        words += [f"{b.hex()}:{_words(iv)}" for b, iv in g.breakpoints()]
        special = [t, 0.0, 1e5] + [t / (d + 1.0) for d in deltas]
        qs = list(rng.uniform(-4.0 * t, 4.0 * t, 120)) + special + [-s for s in special]
        for q in map(float, qs):
            words += [q.hex()] + _words(g.image_at(q))
            words += [float(convert_1d(g, d, q)).hex() for d in deltas]
    return hashlib.sha256(" ".join(words).encode()).hexdigest()


# Pinned from the conversion as it stood with the filled graph stored as
# segments; any change to a relaxed value, a breakpoint or an image moves it.
CONVERSION_SHA256 = "1129a4ebf1459a2a76cb1e7e877e836a1eb51deb75d0a05ed62c6412ab01bd55"


def test_conversion_outputs_match_their_golden_digest():
    assert _conversion_digest() == CONVERSION_SHA256


def test_graph_inversion_rejects_bad_arguments():
    g = MonotoneGraph1D.hard_graph(SQRT2)
    with pytest.raises(ValueError):
        convert_1d(g, 0.0, 1.0)
    with pytest.raises(ValueError):
        convert_1d(g, 1.0, 1e7)
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="q must be finite"):
            convert_1d(g, 1.0, q)


# ----------------------------------------------------- inclusion oracles


def test_inclusion_scalar_count_penalty_inside_its_envelope():
    # box aligned so 0.0 is a grid point; otherwise the second minimizer
    # of the count penalty is invisible to the exhaustive search
    report = verify_inclusion(
        l0_norm, l0_envelope, SQRT2, GridSpec.line(-2.0, 4.0, 0.01)
    )
    assert report.included
    assert report.prox_penalty.kind == "pair"
    assert report.prox_envelope.kind == "interval"
    assert report.max_distance <= 0.02


def test_inclusion_planar_pair_inside_segment():
    report = verify_inclusion(
        lambda z: rowl_penalty(z, W02.as_array()),
        lambda z: rowl_envelope_2d(z, W02),
        (2.0, 2.0),
        default_prox_box((2.0, 2.0), 2.0, 0.05),
    )
    assert report.included
    assert report.prox_penalty.kind == "pair"
    assert report.prox_envelope.kind == "segment"


def test_inclusion_is_reflexive_for_convex_functions():
    quad = lambda y: 0.5 * y * y
    report = verify_inclusion(quad, quad, 1.0, default_prox_box(1.0, 1.0, 0.01))
    assert report.included
    assert report.max_distance <= 1e-9
    assert report.prox_penalty.points()[0] == pytest.approx(0.5, abs=0.02)


# -------------------------------------------------------- operator checks


def test_checkers_on_reference_operators():
    ident = lambda x: x
    assert check_monotone(ident, pairs=500, seed=0) >= 0.0
    assert check_lipschitz(ident, pairs=500, seed=0) == pytest.approx(1.0)

    params = FirmParams(1.0, 2.0)
    op = lambda x: firm(x, params)
    assert check_monotone(op, pairs=2000, seed=3) >= -1e-12
    assert check_lipschitz(op, pairs=2000, seed=3) <= 2.0 + 1e-9


def test_jacobian_symmetry_defect_examples():
    sym = lambda x: np.stack([x[..., 0] + 2 * x[..., 1], 2 * x[..., 0] + x[..., 1]], axis=-1)
    assert jacobian_symmetry_defect(sym, (0.3, -0.7)) <= 1e-10
    rot = lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1)
    assert jacobian_symmetry_defect(rot, (0.3, -0.7)) == pytest.approx(2.0, abs=1e-8)
